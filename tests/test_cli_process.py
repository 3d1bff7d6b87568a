"""The CLI's own process: OpenBLAS's worker threads, the garbage collector and the exit.

granulens makes no BLAS call, so the CLI's process (``python -m granulens.cli``
or the ``granulens`` console script) sets OPENBLAS_NUM_THREADS=1 before numpy
loads, unless the variable is set already. Its imports run no cyclic collection;
``main()`` freezes what they made, turns collection back on, runs the command,
flushes stdout and stderr and ends the process with ``os._exit``. Any other
program that imports granulens keeps its environment and its collector as they were.

The thread counts are read from ``/proc`` while the CLI waits to read its
table from a FIFO, so every import has run by then. They need Linux, at least
two CPUs (OpenBLAS starts one thread per CPU, so one CPU shows nothing) and
numpy on OpenBLAS.
"""

import errno
import gc
import os
import pathlib
import subprocess
import sys
import time

import pytest

import granulens
from granulens import cli

from conftest import DATA_DIR

SRC = str(pathlib.Path(granulens.__file__).resolve().parents[1])
LINUX = pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads /proc")
THREADS_SHOW = pytest.mark.skipif(
    not os.path.exists("/proc/self/maps") or len(os.sched_getaffinity(0)) < 2
    or b"openblas" not in pathlib.Path("/proc/self/maps").read_bytes().lower(),
    reason="needs Linux, 2 or more CPUs and numpy on OpenBLAS")

#: the shape of the launcher pip writes for the ``granulens`` console script
PIP_WRAPPER = """\
import re
import sys
from granulens.cli import main
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit(main())
"""


def _env(**extra):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return dict(env, PYTHONPATH=SRC, **extra)


def _threads_while_reading(tmp_path, program, env):
    """(threads, stdout) of ``program inspect <FIFO>``, threads counted once the
    CLI has opened the FIFO to read toy8 from it."""
    fifo = tmp_path / "toy8.csv"
    os.mkfifo(fifo)
    with subprocess.Popen([*program, "inspect", str(fifo), "--decision", "d"], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            deadline = time.monotonic() + 60
            while True:
                try:
                    fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                    break
                except OSError as exc:  # ENXIO: the CLI has not opened it to read yet
                    if exc.errno != errno.ENXIO or time.monotonic() > deadline:
                        raise
                    if proc.poll() is not None:
                        pytest.fail(f"the CLI exited {proc.returncode}: {proc.stderr.read()!r}")
                    time.sleep(0.01)
            status = pathlib.Path(f"/proc/{proc.pid}/status").read_text(encoding="utf-8")
            threads = int(status.split("\nThreads:")[1].split()[0])
            os.set_blocking(fd, True)
            with open(fd, "wb") as fh:
                fh.write((DATA_DIR / "toy8.csv").read_bytes())
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
    assert (proc.returncode, err) == (0, b"")
    return threads, out


def _pip_wrapper(tmp_path):
    script = tmp_path / "bin" / "granulens"
    script.parent.mkdir()
    script.write_text(PIP_WRAPPER, encoding="utf-8")
    return [sys.executable, str(script)]


@THREADS_SHOW
@pytest.mark.parametrize("program", ["-m", "-Bm", "console script"])
def test_cli_process_starts_no_blas_threads(tmp_path, program):
    argv = (_pip_wrapper(tmp_path) if program == "console script"
            else [sys.executable, program, "granulens.cli"])
    threads, out = _threads_while_reading(tmp_path, argv, _env())
    assert threads == 1
    assert out.startswith(b"toy8.csv: n=8, 2 condition attributes")


@THREADS_SHOW
def test_a_thread_count_the_user_set_wins(tmp_path):
    argv = [sys.executable, "-m", "granulens.cli"]
    threads, _ = _threads_while_reading(tmp_path, argv, _env(OPENBLAS_NUM_THREADS="2"))
    assert threads == 2


_SHOW = ("import gc, os; "
         "print(os.environ.get('OPENBLAS_NUM_THREADS'), gc.isenabled(), gc.get_freeze_count())")


@pytest.mark.parametrize("how", ["-c", "-m otherpkg.m"])
def test_other_programs_that_import_granulens_set_nothing(tmp_path, how):
    """Neither form takes the default or turns the collector off, even with
    ``granulens.cli`` among its arguments; ``-c`` is the benchmark's import probe."""
    (tmp_path / "otherpkg").mkdir()
    (tmp_path / "otherpkg" / "__init__.py").write_text("import granulens.cli\n", encoding="utf-8")
    (tmp_path / "otherpkg" / "m.py").write_text(_SHOW + "\n", encoding="utf-8")
    argv = ([sys.executable, "-c", "import granulens.cli; " + _SHOW] if how == "-c"
            else [sys.executable, "-m", "otherpkg.m"])
    done = subprocess.run(argv + ["granulens.cli"], cwd=tmp_path, env=_env(),
                          capture_output=True, encoding="utf-8", timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "None True 0\n", "")


def test_the_cli_process_imports_without_a_collection(tmp_path):
    """The console script's imports run no cyclic collection (with the collector on,
    numpy's and granulens' run about 35) and leave it off until ``main()`` runs."""
    script = tmp_path / "bin" / "granulens"
    script.parent.mkdir()
    script.write_text("import gc\n"
                      "def runs(): return sum(s['collections'] for s in gc.get_stats())\n"
                      "before = runs()\n"
                      "import granulens.cli\n"
                      "print(gc.isenabled(), runs() - before)\n", encoding="utf-8")
    done = subprocess.run([sys.executable, str(script)], env=_env(),
                          capture_output=True, encoding="utf-8", timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False 0\n", "")


def test_main_runs_the_command_with_the_imports_frozen_and_passes_its_code_on(monkeypatch):
    seen = {}

    def run_cli(argv):
        seen.update(argv=argv, enabled=gc.isenabled(), frozen=gc.get_freeze_count())
        return 2

    monkeypatch.setattr(cli, "run_cli", run_cli)
    monkeypatch.setattr(os, "_exit", lambda code: seen.update(code=code))
    monkeypatch.setattr(sys, "argv", ["granulens", "inspect", "t.csv"])
    gc.disable()  # as granulens/__init__.py leaves it in the CLI's process
    try:
        cli.main()
    finally:
        gc.unfreeze()
        gc.enable()
    assert seen.pop("frozen") > 0
    assert seen == {"argv": ["inspect", "t.csv"], "enabled": True, "code": 2}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="writes to /dev/full")
@pytest.mark.parametrize("program", ["-m", "console script"])
@pytest.mark.parametrize("stdout", ["/dev/full", "closed pipe"])
def test_a_failed_stdout_write_is_exit_2(tmp_path, program, stdout):
    """Unless PYTHONUNBUFFERED is set, stdout is written when ``main()`` flushes it. A write
    that fails there is exit 2 with the error on stderr, not the interpreter's exit 120
    with 'Exception ignored in: <_io.TextIOWrapper name='<stdout>' ...>'."""
    argv = (_pip_wrapper(tmp_path) if program == "console script"
            else [sys.executable, "-m", "granulens.cli"])
    env = {k: v for k, v in _env().items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)  # a write to the pipe is EPIPE: Python ignores SIGPIPE
    with open(write_end, "wb") as pipe, open("/dev/full", "wb") as full:
        done = subprocess.run([*argv, "inspect", str(DATA_DIR / "toy8.csv"), "--decision", "d"],
                              stdout=full if stdout == "/dev/full" else pipe,
                              stderr=subprocess.PIPE, env=env, encoding="utf-8", timeout=120)
    code = errno.ENOSPC if stdout == "/dev/full" else errno.EPIPE
    assert (done.returncode, done.stderr) == (2, f"error: [Errno {code}] {os.strerror(code)}\n")


@pytest.mark.parametrize("fd", [1, 2])
def test_a_process_started_without_stdout_or_stderr_exits_0(fd):
    """Python then has no ``sys.stdout`` (or ``sys.stderr``): there is nothing to flush."""
    argv = [sys.executable, "-m", "granulens.cli", "inspect", str(DATA_DIR / "toy8.csv"),
            "--decision", "d"]
    done = subprocess.run(["sh", "-c", f'exec "$@" {fd}>&-', "sh", *argv], env=_env(),
                          capture_output=True, timeout=120)
    assert done.returncode == 0
    assert done.stdout.startswith(b"toy8.csv: n=8") == (fd == 2)


@LINUX
def test_the_test_process_keeps_its_environment():
    """pytest's own process imported granulens and still has the variable it started with."""
    started = dict(item.split(b"=", 1)
                   for item in pathlib.Path("/proc/self/environ").read_bytes().split(b"\0")
                   if b"=" in item)
    assert "granulens" in sys.modules
    assert os.environb.get(b"OPENBLAS_NUM_THREADS") == started.get(b"OPENBLAS_NUM_THREADS")
