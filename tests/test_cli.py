import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import granulens

from granulens import load_table, read_curve, sweep, emit_svg
from granulens.cli import run_cli
from granulens.curvefile import fmt

from helpers import run_csv


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

    @pytest.mark.parametrize("tolerance", ["nan", "-1"])
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
    A path starting with "@" names an entry of the example's own directory."""
    cmd = draw(st.sampled_from(["inspect", "rough", "entropy", "sweep", "reduce",
                                "evaluate", "compare"]))
    argv = [cmd, "@toy8.csv"] + {"evaluate": ["@run.csv"],
                                 "compare": ["@run.csv", "@run.csv"]}.get(cmd, [])
    argv += ["--decision", draw(st.just("d") | _NAMES)]
    if cmd in ("rough", "entropy", "sweep"):
        argv += ["--attrs", ",".join(draw(st.lists(_NAMES, max_size=3)))]
    if cmd == "sweep":
        bits = draw(st.lists(_BITS, min_size=1, max_size=2))  # may run backwards
        argv += ["--bits", "..".join(bits), "--format", draw(st.sampled_from(["csv", "json"]))]
    elif cmd in ("rough", "entropy", "reduce"):
        argv += ["--bits", draw(_BITS)]
    if cmd == "compare":
        argv += ["--tolerance", draw(st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.01"]))]
    for flag in ["--out", "--svg"] if cmd == "sweep" else ["--out"]:
        target = draw(st.sampled_from([None, "@out", "@taken", "@missing/out"]))
        argv += [flag, target] if target else []
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_cli_argv())
def test_cli_argv_exits_cleanly(tmp_path, toy8_csv, argv):
    """Any argv of the grammar exits 0, 1 or 2, with no traceback and no temp file left."""
    work = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    (work / "toy8.csv").write_text(toy8_csv)
    (work / "run.csv").write_text(run_csv([[i, i % 2] for i in range(8)]))
    (work / "taken").mkdir()
    argv = [str(work / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert not list(work.rglob(".granulens-tmp-*"))


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

    def test_deterministic_bytes(self, toy8, tmp_path):
        curve = sweep(toy8, ["a2"], 0, 3)
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(curve, str(p1))
        emit_svg(curve, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_cli_svg_flag(self, tmp_path, toy8_file):
        svg = tmp_path / "chart.svg"
        assert run_cli(["sweep", str(toy8_file), "--decision", "d", "--attrs", "a2",
                        "--bits", "0..3", "--svg", str(svg)]) == 0
        assert svg.read_text().startswith("<?xml")
