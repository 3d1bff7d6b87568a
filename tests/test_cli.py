import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import pathlib
import random
import stat
import subprocess
import sys
import tempfile
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import granulens

from granulens import (ConceptSet, EvalReport, GranularEntropyReport, InformationTable,
                       ModelRun, ReductResult, RegionReport, RoughApproximation, SweepPoint,
                       approximate, compare_runs, curve_to_csv, emit_svg, entropy_rank,
                       evaluate_run, granular_entropy, greedy_reduct, load_table,
                       partition_by, per_block, read_curve, regions, sweep)
import granulens.cli
from granulens.cli import _json, run_cli, write_atomic
from granulens.curvefile import fmt
from granulens.harness import RankedRun
from granulens.reduction import ReductStep

from helpers import (payload_by_hand, random_attr_subset, random_table, random_view,
                     run_csv)


@pytest.fixture
def toy8_file(tmp_path, toy8_csv):
    path = tmp_path / "toy8.csv"
    path.write_text(toy8_csv)
    return path


class TestSweepCommand:
    def test_curve_round_trip(self, tmp_path, toy8_file, capsys):
        out = tmp_path / "curve.csv"
        code = run_cli(["sweep", str(toy8_file), "--decision", "d",
                        "--attrs", "a2", "--bits", "0..3", "--out", str(out)])
        assert code == 0
        assert "4 points" in capsys.readouterr().out
        text = out.read_text()
        assert text.count("\n") == 5  # header + 4 rows
        curve = read_curve(text)
        table = load_table(toy8_file.read_bytes(), "d")
        expected = sweep(table, ["a2"], 0, 3)
        for got, want in zip(curve.points, expected.points):
            assert got.bits_level == want.bits_level
            assert got.block_count == want.block_count
            assert fmt(got.conditional_bits) == fmt(want.conditional_bits)
            assert fmt(got.boundary_fraction) == fmt(want.boundary_fraction)
            assert fmt(got.gamma) == fmt(want.gamma)

    def test_missing_file_exit_2_no_output(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = run_cli(["sweep", str(tmp_path / "missing.csv"), "--decision", "d",
                        "--attrs", "a2", "--bits", "0..3", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_json_format(self, tmp_path, toy8_file):
        out = tmp_path / "curve.json"
        code = run_cli(["sweep", str(toy8_file), "--decision", "d",
                        "--attrs", "a2", "--bits", "0..2",
                        "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert [p["bits_level"] for p in payload] == [0, 1, 2]
        assert payload[2]["boundary_fraction"] == 0.25

    def test_threads_byte_identical(self, tmp_path, toy8_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["sweep", str(toy8_file), "--decision", "d", "--attrs", "a2",
                 "--bits", "0..3", "--out", str(a), "--threads", "1"])
        run_cli(["sweep", str(toy8_file), "--decision", "d", "--attrs", "a2",
                 "--bits", "0..3", "--out", str(b), "--threads", "4"])
        assert a.read_bytes() == b.read_bytes()

    def test_outputs_go_through_write_atomic(self, tmp_path, toy8, toy8_file, monkeypatch):
        """The curve CSV, then the chart, and the JSON curve are each one write_atomic
        call with the text the library returns."""
        writes = []
        monkeypatch.setattr(granulens.cli, "write_atomic",
                            lambda path, data: writes.append((path, data)))
        argv = ["sweep", str(toy8_file), "--decision", "d", "--attrs", "a2", "--bits", "0..3"]
        curve = sweep(toy8, ["a2"], 0, 3)
        csv_out, svg_out = str(tmp_path / "c.csv"), str(tmp_path / "c.svg")
        assert run_cli([*argv, "--out", csv_out, "--svg", svg_out]) == 0
        assert writes == [(csv_out, curve_to_csv(curve)), (svg_out, emit_svg(curve))]
        writes.clear()
        json_out = str(tmp_path / "c.json")
        assert run_cli([*argv, "--format", "json", "--out", json_out]) == 0
        assert writes == [(json_out, json.dumps(_json(curve.points), indent=2) + "\n")]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["toy8.csv"]

    @pytest.mark.parametrize("bits", ["a..3", "2..x", "5..", ".."])
    def test_malformed_bits_usage_error(self, tmp_path, toy8_file, capsys, bits):
        out = tmp_path / "curve.csv"
        code = run_cli(["sweep", str(toy8_file), "--decision", "d", "--attrs", "a2",
                        "--bits", bits, "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "Traceback" not in err

    def test_threads_env_ignored(self, tmp_path, toy8_file, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", str(toy8_file), "--decision", "d", "--attrs", "a2",
                "--bits", "0..3", "--out"]
        monkeypatch.delenv("GRANULENS_THREADS", raising=False)
        assert run_cli(argv + [str(a)]) == 0
        monkeypatch.setenv("GRANULENS_THREADS", "abc")
        assert run_cli(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRoughCommand:
    def test_class_report(self, toy8_file, capsys):
        code = run_cli(["rough", str(toy8_file), "--decision", "d",
                        "--attrs", "a1", "--class", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lower=[4, 5, 6, 7]" in out
        assert "boundary=[2, 3]" in out
        assert "alpha=0.666666667" in out

    def test_regions_json(self, tmp_path, toy8_file):
        out = tmp_path / "rough.json"
        code = run_cli(["rough", str(toy8_file), "--decision", "d",
                        "--attrs", "a1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["gamma"] == 0.75
        assert payload["boundary_overall"] == [2, 3]
        assert payload["per_class"]["1"]["lower"] == [4, 5, 6, 7]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_json_matches_payloads_by_hand(seed):
    """Every record the CLI writes as JSON gives the same bytes through _json
    as through its fields listed by hand, on a random table and on one whose
    decision labels are ints and bools: json.dumps writes a key True as "true",
    str as "True"."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    int_decision = InformationTable.from_columns(
        {"c0": [rng.choice("uvw") for _ in range(n)],
         "d": [rng.choice([0, 2, True, False]) for _ in range(n)]}, "d")
    for table in (random_table(rng), int_decision):
        view, labels = random_view(rng, table), table.decision_labels
        attrs = random_attr_subset(rng, table, nonempty=False)
        part = partition_by(view, attrs)
        regs, cls = regions(part, labels), rng.choice(labels)
        approx = approximate(part, ConceptSet(
            frozenset(i for i, v in enumerate(labels) if v == cls), table.n))
        rep = granular_entropy(part, table.decision_codes)
        blocks = per_block(part, table.decision_codes)
        result = greedy_reduct(view, table.decision_codes)
        ranking = entropy_rank(view, table.decision_codes)
        points = sweep(table, attrs, 0, rng.randint(0, 4)).points
        reports = [evaluate_run(table, ModelRun(
            f"r{j}", [rng.choice(labels) for _ in labels],
            rng.choice([None, [rng.randrange(3) for _ in labels]])))
            for j in range(rng.randint(1, 3))]
        ranked = compare_runs(reports, tolerance=rng.choice([0.0, 0.2])).ranked
        pairs = [(_json(regs), payload_by_hand(regs)),
                 (_json(approx), payload_by_hand(approx)),
                 ({"per_block": _json(blocks), **_json(rep)}, payload_by_hand(rep, blocks)),
                 ({**_json(result), "entropy_rank": _json(ranking)},
                  payload_by_hand(result, ranking)),
                 (_json(points), payload_by_hand(points)),
                 (_json(reports[0]), payload_by_hand(reports[0])),
                 (_json(ranked), payload_by_hand(ranked))]
        for ours, by_hand in pairs:
            assert json.dumps(ours, indent=2) == json.dumps(by_hand, indent=2)


class TestOtherCommands:
    def test_inspect(self, toy8_file, capsys):
        assert run_cli(["inspect", str(toy8_file), "--decision", "d"]) == 0
        out = capsys.readouterr().out
        assert "n=8" in out and "a2: numeric" in out

    def test_entropy(self, toy8_file, capsys):
        assert run_cli(["entropy", str(toy8_file), "--decision", "d",
                        "--attrs", "a1", "--bits", "0"]) == 0
        assert "conditional_bits=0.250000000" in capsys.readouterr().out

    def test_reduce(self, toy8_file, capsys):
        assert run_cli(["reduce", str(toy8_file), "--decision", "d", "--bits", "3"]) == 0
        assert "selected=['a2']" in capsys.readouterr().out

    def test_evaluate_and_compare(self, tmp_path, toy8_file, toy8, capsys):
        labels = toy8.decision_labels
        good = tmp_path / "good.csv"
        good.write_text(run_csv([[i, labels[i], g] for i, g in
                                 enumerate(["g0", "g0", "g1", "g1", "g2", "g2", "g2", "g2"])],
                                header=("object_index", "predicted", "granule")))
        memo = tmp_path / "memo.csv"
        memo.write_text(run_csv([[i, labels[i], f"s{i}"] for i in range(8)],
                                header=("object_index", "predicted", "granule")))
        assert run_cli(["evaluate", str(toy8_file), str(good), "--decision", "d"]) == 0
        assert "accuracy=1.000000000" in capsys.readouterr().out

        out = tmp_path / "verdict.json"
        assert run_cli(["compare", str(toy8_file), str(good), str(memo),
                        "--decision", "d", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["selected"] == "memo"  # BF 0 beats BF 0.25 inside the band

    def test_usage_error_exit_1(self, capsys):
        assert run_cli(["sweep"]) == 1
        assert run_cli(["bogus"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [["--help"]] + [
        [cmd, "--help"]
        for cmd in ("inspect", "rough", "entropy", "sweep", "reduce", "evaluate", "compare")])
    def test_help_exit_0(self, capsys, argv):
        assert run_cli(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: granulens") and err == ""

    def test_allocation_failure_exit_2(self, toy8_file, capsys, monkeypatch):
        def refuse(*args):
            raise MemoryError("Unable to allocate 2.57 GiB for an array")

        monkeypatch.setattr("granulens.cli.granular_entropy", refuse)
        argv = ["entropy", str(toy8_file), "--decision", "d", "--attrs", "a1,a2"]
        assert run_cli(argv) == 2
        out, err = capsys.readouterr()
        assert err == "error: Unable to allocate 2.57 GiB for an array\n" and out == ""

    def test_bad_data_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,d\n1,0,9\n")
        assert run_cli(["inspect", str(bad), "--decision", "d"]) == 2
        assert "ragged" in capsys.readouterr().err

    def test_encodings(self, tmp_path, toy8_file, toy8_csv, capsys):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + toy8_csv.encode())
        assert run_cli(["inspect", str(bom), "--decision", "a1"]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,d\n\xff,0\n")
        assert run_cli(["inspect", str(bad), "--decision", "d"]) == 2
        bad_run = tmp_path / "run.csv"
        bad_run.write_bytes(b"object_index,predicted\n0,\xff\n")
        assert run_cli(["evaluate", str(toy8_file), str(bad_run), "--decision", "d"]) == 2
        err = capsys.readouterr().err
        assert err.count("not valid UTF-8") == 2 and "Traceback" not in err

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "-inf", "-nan", "-1e-3", "-Infinity"])
    def test_bad_tolerance_exit_2(self, tmp_path, toy8_file, toy8, capsys, tolerance):
        run = tmp_path / "run.csv"
        run.write_text(run_csv([[i, t] for i, t in enumerate(toy8.decision_labels)]))
        assert run_cli(["compare", str(toy8_file), str(run), "--decision", "d",
                        "--tolerance", tolerance]) == 2
        assert "tolerance must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["rough", "entropy", "reduce"])
    def test_bits_above_62_exit_2(self, toy8_file, capsys, cmd):
        attrs = [] if cmd == "reduce" else ["--attrs", "a2"]
        assert run_cli([cmd, str(toy8_file), "--decision", "d", "--bits", "63", *attrs]) == 2
        assert "exceeds 62" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, flag", [("sweep", "--out"), ("sweep", "--svg"),
                                           ("reduce", "--out")])
    def test_output_path_naming_a_directory_exit_2(self, tmp_path, toy8_file, capsys,
                                                   cmd, flag):
        target = tmp_path / "taken"
        target.mkdir()
        attrs = ["--attrs", "a2", "--bits", "0..2"] if cmd == "sweep" else ["--bits", "2"]
        assert run_cli([cmd, str(toy8_file), "--decision", "d", *attrs, flag, str(target)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 21] Is a directory: {str(target)!r}\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["taken", "toy8.csv"]


class TestOutputFiles:
    """--out and --svg write what a plain open(path, "w") would, through a temp file."""

    ARGV = {"sweep": ["--attrs", "a2", "--bits", "0..2"], "reduce": ["--bits", "2"]}

    def _run(self, toy8_file, cmd, flag, target):
        return run_cli([cmd, str(toy8_file), "--decision", "d", *self.ARGV[cmd], flag, str(target)])

    @pytest.mark.parametrize("cmd, flag", [("sweep", "--out"), ("sweep", "--svg"),
                                           ("reduce", "--out")])
    def test_symlink_is_written_through(self, tmp_path, toy8_file, cmd, flag):
        assert self._run(toy8_file, cmd, flag, tmp_path / "plain") == 0
        (tmp_path / "target").write_text("old")
        link = tmp_path / "link"
        link.symlink_to("target")
        assert self._run(toy8_file, cmd, flag, link) == 0
        assert link.is_symlink() and os.readlink(link) == "target"
        assert (tmp_path / "target").read_bytes() == (tmp_path / "plain").read_bytes()

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_new_file_mode_follows_the_umask(self, tmp_path, toy8_file, umask):
        old = os.umask(umask)
        try:
            assert self._run(toy8_file, "reduce", "--out", tmp_path / "r.json") == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "r.json").stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("mode", [0o600, 0o640], ids=oct)
    def test_existing_file_keeps_its_mode(self, tmp_path, toy8_file, mode):
        out = tmp_path / "r.json"
        out.write_text("old")
        out.chmod(mode)
        old = os.umask(0o022)
        try:
            assert self._run(toy8_file, "reduce", "--out", out) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == mode and out.read_text() != "old"

    @pytest.mark.parametrize("cmd, flag", [("sweep", "--out"), ("sweep", "--svg"),
                                           ("reduce", "--out")])
    def test_fifo_target_exit_2(self, tmp_path, toy8_file, capsys, cmd, flag):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        assert self._run(toy8_file, cmd, flag, fifo) == 2
        assert capsys.readouterr().err == f"error: [Errno 22] Not a regular file: {str(fifo)!r}\n"
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "toy8.csv"]


def _names(record) -> list:
    return [f.name for f in fields(record)]


@pytest.mark.parametrize("argv, keys, inner", [
    (["rough", "--attrs", "a1"], _names(RegionReport),
     (lambda p: p["per_class"].values(), RoughApproximation)),
    (["rough", "--attrs", "a1", "--class", "1"], ["class", *_names(RoughApproximation)], None),
    (["entropy", "--attrs", "a1"], ["per_block", *_names(GranularEntropyReport)], None),
    (["sweep", "--attrs", "a2", "--bits", "0..3", "--format", "json"], None,
     (lambda p: p, SweepPoint)),
    (["reduce", "--bits", "3"], [*_names(ReductResult), "entropy_rank"],
     (lambda p: p["trace"], ReductStep)),
    (["evaluate", "@run.csv"], _names(EvalReport), None),
    (["compare", "@run.csv", "@memo.csv"], ["selected", "tolerance_used", "ranked"],
     (lambda p: p["ranked"], RankedRun)),
], ids=["rough", "rough-class", "entropy", "sweep", "reduce", "evaluate", "compare"])
def test_report_keys_are_record_fields(tmp_path, toy8_file, toy8, argv, keys, inner):
    """An --out report is its record's fields in order, plus only the documented
    extras; ``keys`` None is a list of records. ``inner`` says where a report's
    nested records sit and their type."""
    for name in ("run.csv", "memo.csv"):
        (tmp_path / name).write_text(run_csv([[i, t] for i, t in enumerate(toy8.decision_labels)]))
    out = tmp_path / "report.json"
    paths = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv[1:]]
    assert run_cli([argv[0], str(toy8_file), *paths, "--decision", "d", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    if keys is not None:
        assert list(payload) == keys
    if inner is not None:
        where, record = inner
        nested = list(where(payload))
        assert nested and all(list(item) == _names(record) for item in nested)


class TestEmptyPath:
    """An empty path fails as open('') does, and nothing is created in the working
    directory or its parent: as a Path, '' would be the directory '.'."""

    ARGV = {"inspect": [], "rough": ["--attrs", "a1"], "entropy": ["--attrs", "a1"],
            "sweep": ["--attrs", "a2", "--bits", "0..2"], "reduce": ["--bits", "2"],
            "evaluate": ["@run.csv"], "compare": ["@run.csv", "@run.csv"]}
    ERROR = "error: [Errno 2] No such file or directory: ''\n"

    @pytest.fixture
    def here(self, tmp_path, toy8_file, toy8, monkeypatch):
        """Runs from tmp_path/here, beside toy8.csv and run.csv; yields how to run a command."""
        (tmp_path / "run.csv").write_text(
            run_csv([[i, t] for i, t in enumerate(toy8.decision_labels)]))
        (tmp_path / "here").mkdir()
        monkeypatch.chdir(tmp_path / "here")

        def run(cmd, table, *args):
            args = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in args]
            return run_cli([cmd, table, *args, "--decision", "d"])
        yield run
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["here", "run.csv", "toy8.csv"]

    @pytest.mark.parametrize("cmd, extra", [
        *[(cmd, []) for cmd in ARGV], ("rough", ["--class", "1"]),
        ("sweep", ["--format", "json"])])
    def test_out(self, here, toy8_file, capsys, cmd, extra):
        assert here(cmd, str(toy8_file), *self.ARGV[cmd], *extra, "--out", "") == 2
        assert capsys.readouterr().err == self.ERROR

    def test_svg(self, here, toy8_file, capsys):
        assert here("sweep", str(toy8_file), *self.ARGV["sweep"], "--svg", "") == 2
        assert capsys.readouterr().err == self.ERROR

    @pytest.mark.parametrize("cmd", list(ARGV))
    def test_table(self, here, capsys, cmd):
        assert here(cmd, "", *self.ARGV[cmd]) == 2
        assert capsys.readouterr().err == self.ERROR

    @pytest.mark.parametrize("cmd, runs", [("evaluate", [""]), ("compare", ["@run.csv", ""])])
    def test_run(self, here, toy8_file, capsys, cmd, runs):
        assert here(cmd, str(toy8_file), *runs) == 2
        assert capsys.readouterr().err == self.ERROR


def test_write_atomic_refuses_an_empty_path(tmp_path, monkeypatch):
    (tmp_path / "here").mkdir()
    monkeypatch.chdir(tmp_path / "here")
    with pytest.raises(FileNotFoundError) as info:
        write_atomic("", "data")
    assert str(info.value) == "[Errno 2] No such file or directory: ''"
    assert [p.name for p in tmp_path.rglob("*")] == ["here"]


def test_only_the_cli_touches_files():
    """The library returns text: no module but cli.py opens, writes, renames or
    unlinks a file."""
    banned = {"open", "os.replace", "os.unlink", "os.fchmod"}
    found = set()
    for path in pathlib.Path(granulens.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = ast.unparse(node.func)
                if name in banned:
                    found.add((path.name, name))
    assert found == {("cli.py", name) for name in banned}


def _traced():
    """``bench/trace_cli.py``'s ``TRACED`` table, read without importing the tracer."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "trace_cli.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED in bench/trace_cli.py")


@pytest.mark.parametrize("module, name", [
    pytest.param(module, name, marks=pytest.mark.xfail(
        strict=True, reason="write_curve is gone; the tracer still names it (CHANGES.md "
        "FOUND on bench/trace_cli.py, ROADMAP item 2)"))
    if (module, name) == ("curvefile", "write_curve") else (module, name)
    for module, names in _traced().items() for name in names])
def test_every_traced_name_is_a_function(module, name):
    """The benchmark's tracer skips a name it cannot find, so its time would read 0."""
    assert inspect.isfunction(getattr(importlib.import_module(f"granulens.{module}"), name, None))


def test_sweep_range_wider_than_dbl_max_splits_under_warnings_as_errors(tmp_path):
    table = tmp_path / "wide.csv"
    table.write_text("a,d\n-1e308,x\n0,y\n1e308,z\n")
    src = str(pathlib.Path(granulens.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-W", "error", "-m", "granulens.cli", "sweep",
                           str(table), "--decision", "d", "--attrs", "a", "--bits", "0..4"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert "b=1: blocks=2 " in done.stdout
    assert "b=2: blocks=3 H=0.000000000 BF=0.000000000" in done.stdout
    assert "(saturated early)" in done.stdout


_NAMES = st.sampled_from(["a1", "a2", "d", "nope", "", " "])
_BITS = st.sampled_from(["-1", "-70", "0", "2", "62", "63", str(2**64 + 1)])


@st.composite
def _cli_argv(draw):
    """One argv for a subcommand, often with a value the command must refuse.
    A path starting with "@" names an entry of the example's own directory;
    "@" alone is the empty path."""
    cmd = draw(st.sampled_from(["inspect", "rough", "entropy", "sweep", "reduce",
                                "evaluate", "compare"]))
    table, run = (st.sampled_from([name] * 4 + ["@"]) for name in ("@toy8.csv", "@run.csv"))
    argv = [cmd, draw(table)] + {"evaluate": [draw(run)],
                                 "compare": [draw(run), draw(run)]}.get(cmd, [])
    argv += ["--decision", draw(st.just("d") | _NAMES)]
    if cmd in ("rough", "entropy", "sweep"):
        argv += ["--attrs", ",".join(draw(st.lists(_NAMES, max_size=3)))]
    if cmd == "rough":  # toy8 has the class "1" and no class "zz"
        cls = draw(st.sampled_from([None, "1", "zz", ""]))
        argv += ["--class", cls] if cls is not None else []
    if cmd == "sweep":
        bits = draw(st.lists(_BITS, min_size=1, max_size=2))  # may run backwards
        argv += ["--bits", "..".join(bits), "--format", draw(st.sampled_from(["csv", "json"]))]
    elif cmd in ("rough", "entropy", "reduce"):
        argv += ["--bits", draw(_BITS)]
    if cmd == "compare":
        argv += ["--tolerance", draw(st.sampled_from(
            ["nan", "inf", "-inf", "-nan", "-1", "-1e-3", "0", "0.01"]))]
    for flag in ["--out", "--svg"] if cmd == "sweep" else ["--out"]:
        target = draw(st.sampled_from([None, "@out", "@taken", "@missing/out", "@link", "@fifo",
                                       "@"]))
        argv += [flag, target] if target else []
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_cli_argv())
def test_cli_argv_exits_cleanly(tmp_path, toy8_csv, argv):
    """Any argv of the grammar exits 0, 1 or 2, with no traceback and no temp file
    left; one naming an empty path fails, leaving the working directory empty."""
    work = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    (work / "toy8.csv").write_text(toy8_csv)
    (work / "run.csv").write_text(run_csv([[i, i % 2] for i in range(8)]))
    (work / "taken").mkdir()
    (work / "link").symlink_to("linked")
    os.mkfifo(work / "fifo")
    (work / "here").mkdir()
    empty = "@" in argv
    argv = ["" if a == "@" else str(work / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work / "here")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    finally:
        os.chdir(cwd)
    assert code in ((1, 2) if empty else (0, 1, 2))
    assert "Traceback" not in err.getvalue()
    assert not list(work.rglob(".granulens-tmp-*")) and not list((work / "here").iterdir())
    assert (work / "link").is_symlink() and stat.S_ISFIFO((work / "fifo").stat().st_mode)


class TestSvg:
    def test_structure(self, toy8, tmp_path):
        curve = sweep(toy8, ["a2"], 0, 3)
        doc = emit_svg(curve)
        assert doc.count("<polyline") == 2
        for line in doc.splitlines():
            if "<polyline" in line:
                assert line.count(",") == 4  # 4 data points
        assert "<svg" in doc
        assert "granularity (bits)" in doc
        assert "boundary fraction" in doc  # legend text

    def test_single_point_no_polyline(self, toy8):
        doc = emit_svg(sweep(toy8, ["a2"], 0, 0))
        assert "<polyline" not in doc
        assert doc.count("<circle") >= 2

    def test_empty_curve_rejected(self, tmp_path):
        with pytest.raises(granulens.DataError, match="empty curve"):
            write_atomic(str(tmp_path / "c.svg"), emit_svg(granulens.SweepCurve([], ("a2",))))
        assert not list(tmp_path.iterdir())

    def test_deterministic_bytes(self, toy8, tmp_path):
        curve = sweep(toy8, ["a2"], 0, 3)
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_atomic(str(p1), emit_svg(curve))
        write_atomic(str(p2), emit_svg(curve))
        assert p1.read_bytes() == p2.read_bytes()

    def test_cli_svg_flag(self, tmp_path, toy8_file):
        svg = tmp_path / "chart.svg"
        assert run_cli(["sweep", str(toy8_file), "--decision", "d", "--attrs", "a2",
                        "--bits", "0..3", "--svg", str(svg)]) == 0
        assert svg.read_text().startswith("<?xml")


def test_readme_library_example_runs(monkeypatch):
    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    assert "regions(part, table.decision_labels).gamma        # Fraction(3, 4)" in example
    monkeypatch.chdir(root)  # the example's paths are relative to the repo root
    namespace = {}
    exec(example, namespace)
    g = namespace["g"]
    assert g.regions(namespace["part"], namespace["table"].decision_labels).gamma == Fraction(3, 4)
