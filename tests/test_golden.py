"""Golden outputs: every subcommand on the two shipped tables, byte for byte.

Each case runs through ``run_cli`` in a fresh directory and is compared on
its exit code, the sha256 of its stdout and the sha256 of every file it
writes. The digests were recorded before the code they guard last changed;
a mismatch is a behaviour change to explain, not a digest to update.

Each case also runs as its own ``python -m granulens.cli`` process with
OPENBLAS_NUM_THREADS unset, so the CLI's default of one BLAS thread applies
there, while the in-process run keeps the test process's thread count.
Without ``--out``, each case must print the same without building its report.
"""

import contextlib
import csv
import hashlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

import granulens.cli
from granulens.cli import run_cli

from conftest import DATA_DIR

#: table file -> (decision column, condition attributes, one decision class)
TABLES = {
    "toy8.csv": ("d", "a1,a2", "1"),
    "titanic_synthetic.csv": ("Survived", "Pclass,Sex,Age,SibSp,Parch,Fare,Embarked", "1"),
}

#: case -> (arguments after the table path, files the case writes)
CASES = {
    "inspect": (["inspect", "--out", "inspect.json"], ["inspect.json"]),
    "rough": (["rough", "--attrs", "{attrs}", "--bits", "2", "--out", "rough.json"],
              ["rough.json"]),
    "rough-class": (["rough", "--attrs", "{attrs}", "--bits", "1", "--class", "{cls}"], []),
    "rough-class-json": (["rough", "--attrs", "{attrs}", "--bits", "1", "--class", "{cls}",
                          "--out", "rough_class.json"], ["rough_class.json"]),
    "entropy": (["entropy", "--attrs", "{attrs}", "--bits", "3", "--out", "entropy.json"],
                ["entropy.json"]),
    "sweep-csv-svg": (["sweep", "--attrs", "{attrs}", "--bits", "0..6", "--out", "curve.csv",
                       "--svg", "curve.svg"], ["curve.csv", "curve.svg"]),
    "sweep-json": (["sweep", "--attrs", "{attrs}", "--bits", "0..6", "--format", "json",
                    "--out", "curve.json"], ["curve.json"]),
    "reduce": (["reduce", "--bits", "2", "--out", "reduce.json"], ["reduce.json"]),
    "evaluate": (["evaluate", "run_a.csv", "--out", "evaluate.json"], ["evaluate.json"]),
    "compare": (["compare", "run_a.csv", "run_b.csv", "run_c.csv", "--out", "compare.json"],
                ["compare.json"]),
    "compare-entropy-first": (["compare", "run_a.csv", "run_b.csv", "run_c.csv",
                               "--rank-by", "entropy-first", "--tolerance", "0.2"], []),
}

#: (table, case) -> (exit code, stdout sha256, {file: sha256})
GOLDEN = {
    ('toy8.csv', 'inspect'): (0, 'fd171db1a0c9d00e60bdbb22c9e9c76bbb1ae2581f6d2b8ae6f88617a03cc6e1', {'inspect.json': '824eb7519cf518f5cea10d0eaad0c1d5e4552c1995bcdd0dfb584a62cccef52b'}),
    ('toy8.csv', 'rough'): (0, '5c43d9516c4f122895ea7c7bcff6ec06543a79df42fe781de0668e47b045253c', {'rough.json': 'b059b6907fc30d68bd4653038c408a6636252dbcb5b00d89db6a0641aff4ad37'}),
    ('toy8.csv', 'rough-class'): (0, 'd9dceb18a51dba5070c32f261404bbffe89bebd10525a1ef9a6ea842b304ee47', {}),
    ('toy8.csv', 'rough-class-json'): (0, 'd9dceb18a51dba5070c32f261404bbffe89bebd10525a1ef9a6ea842b304ee47', {'rough_class.json': '5b7083b79ca1bdd79be9f9881c6d62638d7dc79d070cacfc5132dc63740472a9'}),
    ('toy8.csv', 'entropy'): (0, '1610b828be810a29b5db487082f89fc817b35fbcc48917c6d465348053f3a342', {'entropy.json': '2438abafd4dc6e394e0fe45756d3c94e203099e3ae06b557ca3ae591f4f22b42'}),
    ('toy8.csv', 'sweep-csv-svg'): (0, '404be128e7451939e5c4c368998ada8a9df0c32f8e772eca811a8029d3b66662', {'curve.csv': '864c70930eeec6cbbc7ed4cfb686f2680af7dbd2ad8e250b534c4897ff8cc6d2', 'curve.svg': '13cb82f13936e3a59dbd68f0155891b2c0da8fc79018ee4cf6050ab56ef76877'}),
    ('toy8.csv', 'sweep-json'): (0, '404be128e7451939e5c4c368998ada8a9df0c32f8e772eca811a8029d3b66662', {'curve.json': '35ab513398a7bb26077528b809c8843e6c2bdfec3886afb45a23dbde05e30057'}),
    ('toy8.csv', 'reduce'): (0, '9f711c9977e22406641e73548dc9dfa924e4c8aa65c4df4248ee0cf88002f8fb', {'reduce.json': '57dd43dda620148f870a9fb45110b0e719ba0cd210c5340bad63fbbf59c95742'}),
    ('toy8.csv', 'evaluate'): (0, 'fd8538c0dadbf5a47c9651001a5a84b6cd205d9175f744f85ce6994ba41e1502', {'evaluate.json': '68230ff522090e43d9141f0254e6561037420fcb56252e806ba8a6b90c2d439c'}),
    ('toy8.csv', 'compare'): (0, '4c80cb90e8c894fe1a111408d4c810256183abac9a5243aff0315446fb126976', {'compare.json': 'f7c5476366d8710eab344a19f96d3e666e0c5acfedc2f7680d1ce68e6b007b10'}),
    ('toy8.csv', 'compare-entropy-first'): (0, '43d3f7a5bb867b6480b909ee386c5ddcf5a8b455161566ac9eb832718ad1da37', {}),
    ('titanic_synthetic.csv', 'inspect'): (0, 'ba0bc7ad6e3a8911dea13d5e0d6a6afa2dbc14092a4b13617f3f577e01a0e653', {'inspect.json': '47cefbe545d39bd59e30f6a56365260c1d1844982d97b62e1079a1aac1aada2c'}),
    ('titanic_synthetic.csv', 'rough'): (0, 'f10e955e25788899de9a1e31cb2889a3265f3fdb76706342c0f3c76df21efd82', {'rough.json': 'd43694b6793009f54f8cbc30ed3eae3e171358c1352b63c6db2f5866139faabb'}),
    ('titanic_synthetic.csv', 'rough-class'): (0, 'a5674621084ee6fb041c82efceb1ac78703f33c2710f63a749c5e9479b8fe51a', {}),
    ('titanic_synthetic.csv', 'rough-class-json'): (0, 'a5674621084ee6fb041c82efceb1ac78703f33c2710f63a749c5e9479b8fe51a', {'rough_class.json': '5554785d92b1a7b21cb0dad0e877dd43f86e7ff14319c04a9d6b025fd8031cfa'}),
    ('titanic_synthetic.csv', 'entropy'): (0, 'ef55b579c2cdbd1f99cc9f1225a4fb03f294818ff709daa1622f2fb1aa7052e8', {'entropy.json': 'e19f4d53f2bc4e5a4c2870efaaa6358fb0379b6f2bfa59edab1866d571f9c1e4'}),
    ('titanic_synthetic.csv', 'sweep-csv-svg'): (0, '9a85186d42357fc0a017794ffdaecfe9228b422192dc1d1900e0ddd246415036', {'curve.csv': '89e3e9d2a1f67a9342bc5452bb851f9cfbbd8c01045e1eeaf064d3421351a78f', 'curve.svg': '2adc28469ab8ba586e541df519faea833554ebb3e48cde199edbbc24e1df94b8'}),
    ('titanic_synthetic.csv', 'sweep-json'): (0, '9a85186d42357fc0a017794ffdaecfe9228b422192dc1d1900e0ddd246415036', {'curve.json': '5563e0b0db6b01560d32c28d8383db8d4d55e28d1bd109d37b648faee296a95d'}),
    ('titanic_synthetic.csv', 'reduce'): (0, 'a2c844bc42d82d1de67cdd740cae99ab544f8531340e4ddec0e62d182937c821', {'reduce.json': 'c151f777d60e35fc6595e583b4f37a2afbfacd3d6b4b768edff453560c2e4136'}),
    ('titanic_synthetic.csv', 'evaluate'): (0, '3be80570a96987f13ee561ba07c7c799ab4d62da1a214112a523ae6ba0e3615b', {'evaluate.json': '646efd8bc818e4156e92b57f48eb14d67282ec2f7f6dc461c068c2de0962a1aa'}),
    ('titanic_synthetic.csv', 'compare'): (0, '533ff6e20b91422467a608e951bcf9db849379404c214c55098c9a05b99dac6c', {'compare.json': '44bfdd49c81f322512497b8b1bb564630f65e03eab217791498f5cf0c2730822'}),
    ('titanic_synthetic.csv', 'compare-entropy-first'): (0, 'a8144fddf5ed8913ac11bc4d911620bf77cff30fa73f519ab80da200178dde59', {}),
}


def _write_runs(directory, table_path, decision):
    """Three runs over the table's decision labels: with granules, without
    them (the predicted-label partition), and behind a run_id directive."""
    with open(table_path, newline="", encoding="utf-8-sig") as fh:
        labels = [row[decision].strip() for row in csv.DictReader(fh)]
    classes = sorted(set(labels))
    other = {c: classes[(i + 1) % len(classes)] for i, c in enumerate(classes)}
    n = len(labels)
    runs = {
        "run_a.csv": ("", [(i, labels[i], f"g{i % 4}") for i in range(n)]),
        "run_b.csv": ("", [(i, other[labels[i]] if i % 3 == 0 else labels[i])
                           for i in range(n)]),
        "run_c.csv": ("# run_id=c meta=k=7\n",
                      [(i, other[labels[i]] if i % 5 == 2 else labels[i], f"g{i % 7}")
                       for i in range(n)]),
    }
    for name, (directive, rows) in runs.items():
        buf = io.StringIO()
        buf.write(directive)
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["object_index", "predicted", "granule"][:len(rows[0])])
        writer.writerows(rows[::-1])  # object_index need not be in order
        (directory / name).write_text(buf.getvalue())


def _argv(directory, table, case):
    decision, attrs, cls = TABLES[table]
    args, _ = CASES[case]
    table_path = DATA_DIR / table
    _write_runs(directory, table_path, decision)
    return [args[0], str(table_path), "--decision", decision] + [
        a.format(attrs=attrs, cls=cls) for a in args[1:]]


def _observe(directory, argv, monkeypatch):
    """(exit code, stdout sha256) of ``run_cli(argv)`` run in ``directory``."""
    monkeypatch.chdir(directory)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run_cli(argv)
    return code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()


def _files(directory, case):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in CASES[case][1]}


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("table", list(TABLES))
def test_outputs_match_recorded_digests(tmp_path, monkeypatch, table, case):
    argv = _argv(tmp_path, table, case)
    observed = *_observe(tmp_path, argv, monkeypatch), _files(tmp_path, case)
    assert observed == GOLDEN[table, case]


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("table", list(TABLES))
def test_cli_process_outputs_match_recorded_digests(tmp_path, table, case):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=str(pathlib.Path(granulens.__file__).resolve().parents[1]),
               PYTHONIOENCODING="utf-8")
    done = subprocess.run([sys.executable, "-m", "granulens.cli", *_argv(tmp_path, table, case)],
                          cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert done.stderr == b""
    observed = done.returncode, hashlib.sha256(done.stdout).hexdigest(), _files(tmp_path, case)
    assert observed == GOLDEN[table, case]


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("table", list(TABLES))
def test_no_report_is_built_without_out(tmp_path, monkeypatch, table, case):
    def raiser(*args, **kwargs):
        raise AssertionError("report built without --out")
    for name in ("_json", "per_block", "asdict"):
        monkeypatch.setattr(granulens.cli, name, raiser)
    argv = _argv(tmp_path, table, case)
    if "--out" in argv:
        del argv[argv.index("--out"):argv.index("--out") + 2]
    assert _observe(tmp_path, argv, monkeypatch) == GOLDEN[table, case][:2]
